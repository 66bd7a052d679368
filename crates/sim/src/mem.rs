//! Global-memory subsystem: coalescer address generation and L1 → L2 →
//! DRAM timing.
//!
//! Each SM owns an L1; everything behind it is shared by every SM (paper
//! Table I: 16 KB L1 per core, 768 KB unified L2) and timed one transaction
//! at a time by [`SharedMem`]. The L2 is sliced into
//! `MemConfig::mem_partitions` line-interleaved banks, each with its own
//! tag slice, bank bandwidth server, **MSHR table** and **bounded DRAM
//! request queue**. An L2 miss holds an MSHR entry (and a DRAM-queue slot
//! for the service time) until its fill returns, releases are scheduled on
//! a calendar wheel ([`TimingWheel`]), and a full table back-pressures SM
//! issue through [`MemGate`]. A second miss to a line whose fill is already
//! in flight **merges** into the existing entry instead of paying for
//! another DRAM access, and a tag hit on an in-flight line waits for the
//! fill (hit-under-miss). Tag state updates eagerly, at issue.
//!
//! The buffer sizes are parameters, and [`MemoryModel`] names two presets
//! of them. `Functional` (one partition, unlimited MSHRs, an unbounded DRAM
//! queue: `MemConfig::default()`) buffers without limit, so a transaction's
//! completion cycle is fixed the cycle it issues and congestion never
//! pushes back on SM issue. It still keeps the first-order contention
//! effect the paper's analysis relies on: more resident blocks ⇒ a bigger
//! combined working set ⇒ more misses ⇒ longer bandwidth queues. `Event`
//! (Table I's 6 partitions with 8 MSHRs and 16 queue slots each) lets
//! in-flight misses back-pressure issue.

use grs_core::MemConfig;
use grs_isa::{GlobalPattern, LINE_BYTES};

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

/// Names for two presets of the memory system's buffer sizes
/// (`MemConfig::{mem_partitions, mshr_entries, dram_queue_entries}`),
/// applied by [`crate::RunConfig::with_memory_model`]. Both presets run the
/// same per-transaction model; only the three sizes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// One partition, unlimited MSHRs, an unbounded DRAM queue — the
    /// `MemConfig::default()` sizes. Buffering is infinite, so every
    /// transaction's latency is fixed at issue.
    Functional,
    /// The Table I sizes: 6 partitions (768 KB / 6 = 128 KB per L2 slice,
    /// the Fermi-era arrangement behind the paper's machine), 8 MSHR entries
    /// and 16 DRAM-queue slots per partition. The MSHR count is scaled to
    /// the synthetic coalescer's transaction volume (one line per warp
    /// access, shrunk grids) rather than raw Fermi entry counts, so that a
    /// latency-bound kernel saturates it the way a real one saturates a real
    /// table.
    Event,
}

impl MemoryModel {
    /// Overwrite `mem`'s three buffer-size fields with this preset; every
    /// other field is kept.
    pub fn apply(self, mem: &mut MemConfig) {
        (mem.mem_partitions, mem.mshr_entries, mem.dram_queue_entries) = match self {
            MemoryModel::Functional => (1, 0, 0),
            MemoryModel::Event => (6, 8, 16),
        };
    }
}

/// Per-cycle issue-capacity snapshot of the memory system: the worst-case
/// (minimum across partitions) free MSHR entries and DRAM-queue slots. The
/// SM readiness scan blocks a global-memory instruction whose transaction
/// count does not fit — the back-pressure that makes post-issue congestion
/// visible to the paper's stall accounting. Unlimited buffers always report
/// [`MemGate::OPEN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGate {
    /// Free MSHR entries in the fullest partition (`u32::MAX` = unlimited).
    pub mshr_free: u32,
    /// Free DRAM-queue slots in the fullest partition (`u32::MAX` =
    /// unlimited).
    pub dram_free: u32,
}

impl MemGate {
    /// A gate that admits everything (unlimited or empty buffers).
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

/// A capacity release scheduled on the release wheel.
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

/// Shared (cross-SM) part of the memory system: the partitioned L2, its
/// MSHR tables and DRAM queues (see the module docs). Capacity releases live
/// on a calendar wheel and are processed lazily — the step loop advances
/// the model to "now" before consulting the gate — so the occupancy
/// integrals in [`MemStats`] are exact even across fast-forward clock jumps
/// (each release credits `occupancy × elapsed` in closed form).
#[derive(Debug, Clone)]
pub struct SharedMem {
    /// Latency and size constants.
    pub cfg: MemConfig,
    /// Counters.
    pub stats: MemStats,
    parts: Vec<Partition>,
    releases: TimingWheel<Release>,
    release_buf: Vec<(u64, Release)>,
    /// Totals across partitions, for the occupancy integrals.
    total_mshr: u32,
    total_dram: u32,
    /// Cycle the integrals are valid through.
    clock: u64,
    /// Telemetry recording state (`None` unless tracing is on).
    telemetry: Option<Box<MemTelemetry>>,
}

impl SharedMem {
    /// Hard ceiling on `MemConfig::mem_partitions`. Configurations above it
    /// are clamped (behaving bit-identically to a machine configured at the
    /// ceiling). The bound keeps the per-bank service-interval scaling
    /// `service_q4 × partitions` provably inside `u32` for every interval
    /// the quarter-cycle [`ServerQueue`] can represent meaningfully, so the
    /// scaling below never silently saturates capacity — the overflow
    /// behaviour the `partition_extremes` tests pin.
    pub const MAX_PARTITIONS: u32 = 4096;

    /// Build the memory system from `cfg` (see the `MemConfig` fields
    /// `mem_partitions`, `mshr_entries`, `dram_queue_entries`).
    /// `mem_partitions` is clamped to `1..=MAX_PARTITIONS`.
    pub fn new(cfg: MemConfig) -> Self {
        let parts_n = cfg.mem_partitions.clamp(1, Self::MAX_PARTITIONS);
        let slice_bytes = (u64::from(cfg.l2_bytes) / u64::from(parts_n))
            .max(u64::from(cfg.line_bytes) * u64::from(cfg.l2_ways.max(1)));
        // Per-bank service is `partitions`× slower than one unified bank so
        // total bandwidth matches. Saturation policy (decided, not
        // accidental): a product that would exceed u32::MAX pins to
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
        SharedMem {
            cfg,
            stats: MemStats::default(),
            parts,
            releases: TimingWheel::new(),
            release_buf: Vec::new(),
            total_mshr: 0,
            total_dram: 0,
            clock: 0,
            telemetry: None,
        }
    }

    /// Credit `occupancy × elapsed` for both resources up to `to`.
    fn integrate(&mut self, to: u64) {
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
            self.stats.mshr_occupancy_cycles += span * u64::from(self.total_mshr);
            self.stats.dram_queue_occupancy_cycles += span * u64::from(self.total_dram);
            self.clock = to;
        }
    }

    /// Process every capacity release due by `now`, integrating occupancy
    /// piecewise at each release cycle (exact across arbitrarily long
    /// jumps). Idempotent per cycle; the SM step loop calls it before
    /// consulting the gate, so a clock jump settles lazily.
    pub fn advance_to(&mut self, now: u64) {
        while let Some(due) = self.releases.next_due() {
            if due > now {
                break;
            }
            self.integrate(due);
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
        self.integrate(now);
    }

    /// Capacity snapshot for the SM readiness scan at `now` (call after
    /// [`Self::advance_to`]): the worst-case free capacity across
    /// partitions. Soft-limit semantics: an *empty* table accepts any
    /// instruction whole (even one whose transaction count exceeds the
    /// nominal limit), which is what makes finite tables deadlock-free —
    /// entries drain on their own, so a blocked instruction always
    /// eventually sees an empty table.
    pub fn issue_gate(&self) -> MemGate {
        let (mshr_limit, dram_limit) = (self.cfg.mshr_entries, self.cfg.dram_queue_entries);
        let mut gate = MemGate::OPEN;
        for p in &self.parts {
            if mshr_limit > 0 && !p.mshr.is_empty() {
                let free = mshr_limit.saturating_sub(p.mshr.len() as u32);
                gate.mshr_free = gate.mshr_free.min(free);
            }
            if dram_limit > 0 && p.dram_in_queue > 0 {
                let free = dram_limit.saturating_sub(p.dram_in_queue);
                gate.dram_free = gate.dram_free.min(free);
            }
        }
        gate
    }

    /// Earliest pending MSHR/DRAM-queue release — the wake-up cycle for an
    /// SM sleeping on memory back-pressure. `None` when nothing is held
    /// (always, with unlimited buffers).
    pub fn next_release(&self) -> Option<u64> {
        self.releases.next_due()
    }

    /// In-flight occupancy `(mshr entries, dram-queue slots)` across all
    /// partitions. Surfaced in the watchdog's
    /// [`crate::supervise::StallDiagnosis`].
    pub fn in_flight(&self) -> (u32, u32) {
        (self.total_mshr, self.total_dram)
    }

    /// Latest capacity-release cycle ever scheduled (0 if none) — one input
    /// to the forward-progress watchdog's watermark. Engine-invariant:
    /// releases are scheduled at issue time with identical due cycles in
    /// every engine.
    pub fn latest_release_scheduled(&self) -> u64 {
        self.releases.latest_scheduled()
    }

    /// Flush the occupancy integrals through the end of the run.
    pub fn finalize(&mut self, end: u64) {
        self.advance_to(end);
    }

    /// Enable telemetry recording.
    pub(crate) fn set_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.telemetry = Some(Box::new(MemTelemetry::new(cfg)));
    }

    /// Take the memory-side telemetry state for end-of-run assembly.
    pub(crate) fn take_telemetry(&mut self) -> Option<MemTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// Partition index, global line number and partition-local probe
    /// address of `addr` (line-interleaved slicing; the local address
    /// renumbers the partition's lines densely so each slice uses all its
    /// sets).
    #[inline]
    fn route(&self, addr: u64) -> (usize, u64, u64) {
        let line_bytes = u64::from(self.cfg.line_bytes);
        let line = addr / line_bytes;
        let part = (line % self.parts.len() as u64) as usize;
        let local_addr = (line / self.parts.len() as u64) * line_bytes;
        (part, line, local_addr)
    }

    /// Time one transaction to `addr` from the SM owning `l1`, issued at
    /// `now`; returns its **absolute completion cycle**. Requires a
    /// preceding [`Self::advance_to`] for `now`. MSHR entries and DRAM-queue
    /// slots are held via wheel-scheduled releases.
    pub fn access(&mut self, l1: &mut Cache, addr: u64, now: u64, is_load: bool) -> u64 {
        debug_assert!(self.clock == now, "advance_to(now) must precede access");
        let cfg = self.cfg;
        self.stats.transactions += 1;
        let base = u64::from(cfg.l1_hit_latency);
        if is_load {
            if l1.access(addr) == CacheOutcome::Hit {
                self.stats.l1_hits += 1;
                return now + base;
            }
            self.stats.l1_misses += 1;
        } else {
            l1.access_store(addr);
        }
        let (part, line, local_addr) = self.route(addr);
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
                    if cfg.dram_queue_entries > 0 {
                        self.hold_dram_slot(part, now, service_end);
                    }
                    l2_time + queue_dram // posted: no dram_latency
                }
            };
        }
        let outcome = p.l2.access(local_addr);
        if cfg.mshr_entries > 0 {
            // Hit-under-miss / miss merging: any request touching a line
            // whose fill is still in flight completes with that fill.
            if let Some(e) = p.mshr.iter().find(|e| e.line == line) {
                match outcome {
                    CacheOutcome::Hit => self.stats.l2_hits += 1,
                    CacheOutcome::Miss => self.stats.l2_misses += 1,
                }
                self.stats.mshr_merges += 1;
                let merged_at = l2_time.max(e.fill_at + base);
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.record(now, TelemetryEvent::MshrMerge { part: part as u32 });
                }
                return merged_at;
            }
        }
        match outcome {
            CacheOutcome::Hit => {
                self.stats.l2_hits += 1;
                l2_time
            }
            CacheOutcome::Miss => {
                self.stats.l2_misses += 1;
                let (queue_dram, service_end) = p.dram_server.admit_timed(now);
                let fill_at = now
                    + u64::from(cfg.l2_latency)
                    + queue_l2
                    + u64::from(cfg.dram_latency)
                    + queue_dram;
                if cfg.mshr_entries > 0 {
                    p.mshr.push(MshrEntry { line, fill_at });
                    self.total_mshr += 1;
                    // Sample the cross-partition total at admission: totals
                    // only grow here (releases only shrink them), so this one
                    // sampling point sees every peak. Maxing one partition's
                    // table length — the old behaviour — understated the
                    // machine-wide peak whenever misses spread across
                    // partitions.
                    self.stats.peak_mshr_occupancy =
                        self.stats.peak_mshr_occupancy.max(self.total_mshr);
                    self.releases.push(
                        fill_at,
                        Release::Mshr {
                            part: part as u16,
                            line,
                        },
                    );
                }
                if cfg.dram_queue_entries > 0 {
                    self.hold_dram_slot(part, now, service_end);
                }
                fill_at + base
            }
        }
    }

    /// Hold a DRAM-queue slot of partition `part` from its admission at
    /// `now` until the channel finishes the transaction at `service_end`.
    fn hold_dram_slot(&mut self, part: usize, now: u64, service_end: u64) {
        self.parts[part].dram_in_queue += 1;
        self.total_dram += 1;
        self.stats.peak_dram_queue_occupancy =
            self.stats.peak_dram_queue_occupancy.max(self.total_dram);
        self.releases
            .push(service_end, Release::DramSlot { part: part as u16 });
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.record(now, TelemetryEvent::DramAdmit { part: part as u32 });
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

    fn l1_for(cfg: &MemConfig) -> Cache {
        Cache::new(
            u64::from(cfg.l1_bytes),
            cfg.l1_ways,
            u64::from(cfg.line_bytes),
        )
    }

    /// The memory system at the default (`Functional` preset) sizes.
    fn mem() -> (SharedMem, Cache) {
        let cfg = MemConfig::default();
        (SharedMem::new(cfg), l1_for(&cfg))
    }

    /// The `Event` preset's sizes over default timing.
    fn event_cfg() -> MemConfig {
        let mut cfg = MemConfig::default();
        MemoryModel::Event.apply(&mut cfg);
        cfg
    }

    /// The memory system with explicit partition / MSHR / DRAM-queue sizes.
    fn mem_with(parts: u32, mshr: u32, dramq: u32) -> (SharedMem, Cache) {
        let cfg = MemConfig {
            mem_partitions: parts,
            mshr_entries: mshr,
            dram_queue_entries: dramq,
            ..MemConfig::default()
        };
        (SharedMem::new(cfg), l1_for(&cfg))
    }

    #[test]
    fn the_functional_preset_is_the_default_and_event_sets_table_i_sizes() {
        let mut functional = MemConfig::default();
        MemoryModel::Functional.apply(&mut functional);
        assert_eq!(functional, MemConfig::default());
        let mut event = MemConfig {
            l2_latency: 7,
            ..MemConfig::default()
        };
        MemoryModel::Event.apply(&mut event);
        assert_eq!(
            (
                event.mem_partitions,
                event.mshr_entries,
                event.dram_queue_entries
            ),
            (6, 8, 16)
        );
        assert_eq!(event.l2_latency, 7, "only the three sizes change");
    }

    #[test]
    fn l1_hit_is_cheapest() {
        let (mut sm, mut l1) = mem();
        let cold = sm.access(&mut l1, 0x1000, 0, true);
        let warm = sm.access(&mut l1, 0x1000, 0, true);
        assert!(warm < cold);
        assert_eq!(warm, u64::from(sm.cfg.l1_hit_latency));
        assert_eq!(sm.stats.l1_hits, 1);
        assert_eq!(sm.stats.l1_misses, 1);
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let (mut sm, mut l1a) = mem();
        let mut l1b = l1_for(&sm.cfg);
        // SM A warms L2; SM B misses L1 but hits L2.
        let dram = sm.access(&mut l1a, 0x8000, 0, true);
        let l2hit = sm.access(&mut l1b, 0x8000, 0, true);
        assert!(l2hit < dram);
        assert_eq!(sm.stats.l2_hits, 1);
        assert_eq!(sm.stats.l2_misses, 1);
    }

    #[test]
    fn dram_bandwidth_builds_queues() {
        let (mut sm, mut l1) = mem();
        // Distinct lines all missing to DRAM at the same cycle: completion
        // cycles must grow (non-strictly, thanks to sub-cycle service
        // resolution) as the service queue backs up.
        let done: Vec<u64> = (0u64..8)
            .map(|i| sm.access(&mut l1, 0x100_0000 + i * 0x10_0000, 0, true))
            .collect();
        assert!(done.windows(2).all(|w| w[0] <= w[1]), "{done:?}");
        assert!(done[7] > done[0], "{done:?}");
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

    #[test]
    fn peak_mshr_occupancy_sums_across_partitions() {
        // Two same-cycle misses routed to different partitions (lines 0 and
        // 1 under 2-way interleaving): the machine-wide peak is 2 entries,
        // not the per-partition maximum of 1 the old sampling reported.
        let (mut sm, mut l1) = mem_with(2, 8, 0);
        sm.access(&mut l1, 0, 0, true);
        sm.access(&mut l1, 128, 0, true);
        assert_eq!(sm.stats.peak_mshr_occupancy, 2);
        // Same shape for the DRAM queue peak.
        let (mut sm, mut l1) = mem_with(2, 0, 8);
        sm.access(&mut l1, 0, 0, true);
        sm.access(&mut l1, 128, 0, true);
        assert_eq!(sm.stats.peak_dram_queue_occupancy, 2);
    }

    #[test]
    fn peak_mshr_occupancy_sees_peaks_between_releases() {
        // Admissions at different cycles with no release processed in
        // between must still raise the recorded peak monotonically: the
        // sample happens at every admission, not at release processing.
        let (mut sm, mut l1) = mem_with(1, 16, 0);
        for i in 0..4u64 {
            sm.advance_to(i);
            sm.access(&mut l1, i * 128, i, true);
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
        let (mut sm, mut l1) = mem_with(1, 1, 0);
        sm.access(&mut l1, 0, 0, true);
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
            ..event_cfg()
        };
        let at_cap = MemConfig {
            mem_partitions: SharedMem::MAX_PARTITIONS,
            ..event_cfg()
        };
        let mut a = SharedMem::new(over);
        let mut b = SharedMem::new(at_cap);
        let (mut l1a, mut l1b) = (l1_for(&over), l1_for(&at_cap));
        for i in 0..64u64 {
            let addr = i * 128 * 4097; // spread across many partitions
            assert_eq!(
                a.access(&mut l1a, addr, 0, true),
                b.access(&mut l1b, addr, 0, true),
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
            ..event_cfg()
        };
        let mut sm = SharedMem::new(cfg);
        let mut l1 = l1_for(&cfg);
        // Back-to-back transactions on one bank (lines 0 and 2 share a
        // partition) must queue behind the saturated, enormous service
        // interval — a wrapped interval would make them nearly free.
        let first = sm.access(&mut l1, 0, 0, true);
        let second = sm.access(&mut l1, 2 * 128, 0, true);
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
